//===- support/FlightRecorder.cpp -----------------------------------------===//

#include "support/FlightRecorder.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

using namespace tfgc;

FlightRecorder::FlightRecorder(unsigned NumTasks, unsigned,
                               size_t BufferKb)
    : Origin(std::chrono::steady_clock::now()) {
  size_t Cap = (BufferKb ? BufferKb : 1) * 1024 / sizeof(FlightEvent);
  for (unsigned I = 0; I < (NumTasks ? NumTasks : 1); ++I)
    TaskRings.push_back(std::make_unique<FlightRing>(Cap, (uint8_t)I, Origin));
  GcRing = std::make_unique<FlightRing>(Cap, GcTid, Origin);
}

std::string FlightRecorder::fileHeader() {
  std::string H(Magic, 8);
  uint32_t Ver = Version;
  uint32_t RecBytes = (uint32_t)sizeof(FlightEvent);
  uint64_t Reserved = 0;
  H.append((const char *)&Ver, 4);
  H.append((const char *)&RecBytes, 4);
  H.append((const char *)&Reserved, 8);
  return H;
}

bool FlightRecorder::openFile(const std::string &Path, std::string &Err) {
  File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    Err = std::strerror(errno);
    return false;
  }
  std::string H = fileHeader();
  std::fwrite(H.data(), 1, H.size(), File);
  std::fflush(File);
  return true;
}

void FlightRecorder::drain() {
  Scratch.clear();
  for (auto &R : TaskRings)
    R->drain(Scratch);
  GcRing->drain(Scratch);
  if (Scratch.empty())
    return;
  // One globally ordered chunk. Stable so same-timestamp records keep
  // their ring order (a producer's own sequence is already chronological).
  std::stable_sort(Scratch.begin(), Scratch.end(),
                   [](const FlightEvent &A, const FlightEvent &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  if (File) {
    // Buffered, not flushed: the drain must stay cheap inside the pause
    // (one memcpy into stdio), and every tfgc exit path — exit 3
    // included — runs finish(). A hard crash loses at most the last
    // partial stdio buffer, never a torn record: all writes after the
    // header are 32-byte records and the buffer size is a multiple of 32.
    std::fwrite(Scratch.data(), sizeof(FlightEvent), Scratch.size(), File);
  }
  Filed += Scratch.size();
  if (ChunkSink) {
    std::string Chunk = fileHeader();
    Chunk.append((const char *)Scratch.data(),
                 Scratch.size() * sizeof(FlightEvent));
    ChunkSink(Chunk);
  }
}

void FlightRecorder::maybeDrain() {
  // All rings drain together once any passes half full — draining a
  // subset would let an idle ring carry older events into a later chunk
  // and break cross-chunk time ordering.
  for (const auto &R : TaskRings)
    if (R->pending() * 2 > R->capacity())
      return drain();
  if (GcRing->pending() * 2 > GcRing->capacity())
    return drain();
}

void FlightRecorder::finish() {
  drain();
  if (File) {
    std::fflush(File);
    std::fclose(File);
    File = nullptr;
  }
}

uint64_t FlightRecorder::droppedTotal() const {
  uint64_t D = GcRing->droppedTotal();
  for (const auto &R : TaskRings)
    D += R->droppedTotal();
  return D;
}
