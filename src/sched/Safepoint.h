//===- sched/Safepoint.h - Stop-the-world rendezvous ------------*- C++ -*-===//
///
/// \file
/// The handshake that stops real OS-thread mutators for a collection
/// (paper section 4, with std::thread standing in for Ada tasks). The
/// protocol has three verbs:
///
///   requestStop   a mutator exhausted the heap: arm the stop flag (the
///                 word every VM polls through its fuel counter) and
///                 stamp the request time;
///   park          a mutator reached a GC point (its stack walkable, the
///                 pending site recorded): count it in and sleep until
///                 the epoch advances, running any trace worker it claims
///                 meanwhile. The *last* mutator to park owns the pause —
///                 it runs the collection thunk under the coordinator
///                 lock, advances the epoch and wakes everyone;
///   threadFinished a mutator's task completed: leave the rendezvous set,
///                 and — if every remaining mutator is already parked —
///                 run the pending collection on their behalf before
///                 exiting (otherwise they would wait forever on a
///                 thread that is gone);
///   runOnParked   the pause owner runs worker 0 of a trace job and the
///                 parked mutators claim the others (OCaml 5's
///                 stop-the-world participants): no thread is created in
///                 a pause.
///
/// The flag itself is an atomic read with relaxed ordering — the poll is
/// on the interpreter hot path and synchronization happens on the mutex
/// when a mutator actually parks. A stale read is benign in both
/// directions: missing the flag delays the park by one poll interval;
/// seeing a completed stop just bounces off the lock (park returns
/// without waiting when no stop is armed).
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SCHED_SAFEPOINT_H
#define TFGC_SCHED_SAFEPOINT_H

#include "support/FlightRecorder.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace tfgc {

class SafepointCoordinator {
public:
  /// The collection thunk, run with the world stopped and the coordinator
  /// lock held (runOnParked drops it while a job runs): \p NeedWords is
  /// the largest payload demand among the requesters this cycle,
  /// \p StopDelayNs the request-to-world-stop latency (the slowest
  /// mutator's park delay).
  using CollectFn = std::function<void(size_t NeedWords, uint64_t StopDelayNs)>;

  /// What park() tells the parking thread about its own handshake slot.
  struct ParkInfo {
    uint64_t DelayNs;  ///< Request-to-this-park latency (time-to-safepoint).
    uint64_t Epoch;    ///< Handshake id (the epoch this stop completes).
    bool LastParker;   ///< This park completed the rendezvous.
  };
  using ParkedFn = std::function<void(const ParkInfo &)>;
  /// One trace worker's share of a posted job: \p Worker in [0, Width),
  /// \p Task the rendezvous slot (task index) of the thread running it.
  using JobFn = std::function<void(unsigned Worker, unsigned Task)>;
  using ResumedFn = std::function<void(uint64_t Epoch)>;
  using HandoffFn = std::function<void(uint64_t Epoch, uint64_t DelayNs)>;

  explicit SafepointCoordinator(unsigned LiveThreads) : Live(LiveThreads) {}

  /// Attaches the flight recorder's GC ring (nullptr disables). Arm
  /// events are recorded under the coordinator lock, which is what makes
  /// the GC ring single-producer-at-a-time.
  void setFlightRing(FlightRing *R) { Flight = R; }

  /// Lock-free mutator poll (the VM's fuel-counter safepoint check and
  /// the test inside the allocation routines).
  bool pending() const {
    return StopRequested.load(std::memory_order_relaxed);
  }

  /// Arms the stop (first caller per cycle) and raises the word demand.
  /// Each arm is counted once (arms()), so requests are counted once per
  /// handshake cycle exactly like the cooperative scheduler counts them.
  void requestStop(size_t NeedWords) {
    std::lock_guard<std::mutex> Lock(M);
    if (!StopArmed) {
      StopArmed = true;
      StopRequested.store(true, std::memory_order_relaxed);
      RequestTime = std::chrono::steady_clock::now();
      ++Arms;
      if (Flight) [[unlikely]]
        Flight->record(FlightEventType::SafepointArm,
                       (uint32_t)Epoch.load(std::memory_order_relaxed),
                       NeedWords);
    }
    if (NeedWords > Need)
      Need = NeedWords;
  }

  /// Parks the calling mutator (task \p Self) at a GC point. \p OnParked
  /// runs under the lock with this thread's request-to-park delay, the
  /// handshake epoch, and whether this park completed the rendezvous
  /// (per-task time-to-safepoint and last-parker attribution); the last
  /// thread to park runs \p Collect and advances the epoch.
  /// \p OnResumed (optional) runs once the handshake this thread parked
  /// in has completed — on every parked thread, the pause owner included
  /// — so park/resume events pair up per epoch. While parked, the thread
  /// runs every trace worker it claims from runOnParked. Returns
  /// immediately when no stop is armed (the poll raced with a completing
  /// handshake).
  void park(unsigned Self, const ParkedFn &OnParked, const CollectFn &Collect,
            const ResumedFn &OnResumed = {}) {
    std::unique_lock<std::mutex> Lock(M);
    if (!StopArmed)
      return;
    uint64_t DelayNs = sinceRequestNs();
    uint64_t MyEpoch = Epoch.load(std::memory_order_relaxed);
    ++Parked;
    bool Last = Parked == Live;
    if (OnParked)
      OnParked({DelayNs, MyEpoch, Last});
    if (Last) {
      Owner = Self;
      Collect(Need, DelayNs);
      finishStop();
      Lock.unlock();
      CV.notify_all();
      if (OnResumed)
        OnResumed(MyEpoch);
      return;
    }
    // One worker per posted job, so a job's workers run on distinct
    // threads.
    uint64_t Joined = JobSeq;
    for (;;) {
      CV.wait(Lock, [&] {
        return Epoch.load(std::memory_order_relaxed) != MyEpoch ||
               (Job && NextWorker < JobWidth && JobSeq != Joined);
      });
      if (Epoch.load(std::memory_order_relaxed) != MyEpoch)
        break;
      Joined = JobSeq;
      const JobFn &Fn = *Job;
      unsigned W = NextWorker++;
      ++Helping;
      Lock.unlock();
      Fn(W, Self);
      Lock.lock();
      if (--Helping == 0)
        HelpersDone.notify_one();
    }
    if (OnResumed)
      OnResumed(MyEpoch);
  }

  /// Pause owner only, from inside the collection thunk (coordinator lock
  /// held). Runs \p Fn(0, owner) on the calling thread and offers workers
  /// 1..Width-1 to the parked mutators; returns once every worker that
  /// was claimed has returned. Workers nobody claimed before worker 0
  /// returned are withdrawn, so \p Fn must leave no work to a worker that
  /// never runs. The lock is released while the job runs — every other
  /// live thread is parked, so nothing but job claims can touch the
  /// handshake state — and held again on return.
  void runOnParked(unsigned Width, const JobFn &Fn) {
    std::unique_lock<std::mutex> Lock(M, std::adopt_lock);
    Job = &Fn;
    ++JobSeq;
    JobWidth = Width;
    NextWorker = 1;
    Lock.unlock();
    CV.notify_all();
    Fn(0, Owner);
    Lock.lock();
    Job = nullptr;
    HelpersDone.wait(Lock, [&] { return Helping == 0; });
    Lock.release();
  }

  /// Removes the calling mutator from the rendezvous set (its task is
  /// done; its roots must already be out of the root set). If its exit
  /// completes a pending rendezvous, the collection runs here, on the
  /// exiting thread, so the parked mutators are not stranded; \p OnHandoff
  /// (optional) is told about it under the lock before the collection.
  void threadFinished(unsigned Self, const CollectFn &Collect,
                      const HandoffFn &OnHandoff = {}) {
    std::unique_lock<std::mutex> Lock(M);
    --Live;
    if (!StopArmed)
      return;
    if (Live > 0 && Parked == Live) {
      uint64_t DelayNs = sinceRequestNs();
      if (OnHandoff)
        OnHandoff(Epoch.load(std::memory_order_relaxed), DelayNs);
      Owner = Self;
      Collect(Need, DelayNs);
      finishStop();
      Lock.unlock();
      CV.notify_all();
    } else if (Live == 0) {
      // Unreachable in practice — the requester always parks before its
      // task can finish — but don't leave a stop armed with nobody to
      // serve it.
      StopArmed = false;
      StopRequested.store(false, std::memory_order_relaxed);
      Need = 0;
    }
  }

  /// Completed world stops. Strictly monotone, advanced only inside the
  /// pause; the stress test asserts it never goes backwards and ends
  /// equal to the number of armed requests (no lost handshakes).
  uint64_t epoch() const { return Epoch.load(std::memory_order_relaxed); }

  /// Armed stops (task.gc_requests). Read by the pause owner or once the
  /// mutators have joined.
  uint64_t arms() const { return Arms; }

private:
  uint64_t sinceRequestNs() const {
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - RequestTime)
        .count();
  }

  /// Lock held. Resets the cycle and publishes the new epoch (the CV
  /// predicate the parked mutators wake on).
  void finishStop() {
    StopArmed = false;
    StopRequested.store(false, std::memory_order_relaxed);
    Need = 0;
    Parked = 0;
    Epoch.fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex M;
  /// Parked mutators wait here for the epoch to advance or a job to post.
  std::condition_variable CV;
  /// The pause owner waits here for the helpers of its job to return.
  std::condition_variable HelpersDone;
  /// The armed flag under the lock; StopRequested mirrors it for the
  /// lock-free poll.
  bool StopArmed = false;
  std::atomic<bool> StopRequested{false};
  size_t Need = 0;
  unsigned Live;
  unsigned Parked = 0;
  std::chrono::steady_clock::time_point RequestTime;
  std::atomic<uint64_t> Epoch{0};
  uint64_t Arms = 0;
  FlightRing *Flight = nullptr;
  /// The task that owns the current pause (runs worker 0).
  unsigned Owner = 0;
  /// The posted job (null when none is open), its sequence number, its
  /// width, the next unclaimed worker, and the claimed workers still
  /// running. All under M.
  const JobFn *Job = nullptr;
  uint64_t JobSeq = 0;
  unsigned JobWidth = 0;
  unsigned NextWorker = 0;
  unsigned Helping = 0;
};

} // namespace tfgc

#endif // TFGC_SCHED_SAFEPOINT_H
